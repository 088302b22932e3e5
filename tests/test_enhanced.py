"""Areas, renormalization constants and the translation structure."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from paracalc import (DIRAC_MOLLIFIER, GAUSS_MOLLIFIER, EnhancedNoise,
                      SpectralField, TorusGrid, burgers_area,
                      burgers_theta_path, derivative, enhanced_translate,
                      heat_apply, mollify, pam_c_eps, pam_gt,
                      pam_renormalized_area, pair_resonant, pam_theta,
                      rde_area, resonant, rough_area_check, sample_line_path,
                      rde_driver, spatial_white_noise, sym_antisym_split)
from paracalc.spectral import antiderivative, default_partition

from conftest import rough_field

TWO_PI = 2 * math.pi


class TestConstants:
    def test_heat_trace_monotone_and_vanishing(self, grid2d):
        vals = [pam_gt(t, grid2d) for t in (0.05, 0.1, 0.5, 5.0, 50.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-10

    def test_heat_trace_rejects_nonpositive_time(self, grid2d):
        with pytest.raises(ValueError):
            pam_gt(0.0, grid2d)

    def test_heat_trace_against_direct_summation(self):
        grid = TorusGrid(2, 64)
        t = 1.0
        acc = 0.0
        for kx in range(-32, 32):
            for ky in range(-32, 32):
                if kx or ky:
                    acc += math.exp(-t * (kx * kx + ky * ky))
        assert pam_gt(t, grid) == pytest.approx(acc / TWO_PI**2, rel=1e-13)

    def test_divergence_constant_against_direct_summation(self):
        grid = TorusGrid(2, 32)
        eps = 0.25
        acc = 0.0
        for kx in range(-16, 16):
            for ky in range(-16, 16):
                if kx or ky:
                    r2 = kx * kx + ky * ky
                    w = math.exp(-(eps ** 2) * r2 / 2)
                    acc += w * w / r2
        assert pam_c_eps(eps, GAUSS_MOLLIFIER, grid) == pytest.approx(
            acc / TWO_PI**2, rel=1e-13)

    def test_divergence_constant_grows_as_eps_shrinks(self, grid2d):
        cs = [pam_c_eps(e, GAUSS_MOLLIFIER, grid2d) for e in (0.5, 0.25, 0.125)]
        assert cs[0] < cs[1] < cs[2]


def pam_area_by_time_integral(xi):
    """The renormalized area by another route: the time integral of
    (P_t xi @ xi - g_t), by Simpson quadrature on 257 log-spaced t in [1e-5, 80].

    The grid truncation makes both the integrand and its subtracted mean
    finite, so the integral converges as t -> 0 like the resolved
    ultraviolet tail."""
    grid = xi.grid
    ts = np.exp(np.linspace(math.log(1e-5), math.log(80.0), 257))
    samples = []
    for t in ts:
        f = resonant(heat_apply(xi, t, 1.0), xi) - SpectralField.constant(grid, pam_gt(t, grid))
        samples.append(f.coeffs)
    vals = np.stack(samples)  # integrate each coefficient over t
    out = simpson(vals, x=ts, axis=0)
    return SpectralField(grid, out)


class TestPamArea:
    def test_renormalized_area_definition(self, grid2d, part2d):
        xi = spatial_white_noise(grid2d, 0)
        eps = 0.25
        area = pam_renormalized_area(xi, eps, GAUSS_MOLLIFIER)
        xe = mollify(xi, eps, GAUSS_MOLLIFIER)
        te = mollify(pam_theta(xi), eps, GAUSS_MOLLIFIER)
        ref = resonant(te, xe, part2d) - pam_c_eps(eps, GAUSS_MOLLIFIER, grid2d)
        assert (area - ref).sup_norm() < 1e-12

    def test_time_integral_route_agrees(self, grid2d, part2d):
        # integrating the heat-smoothed pairing over all t reproduces the
        # unmollified renormalized area on the truncated lattice
        xi = spatial_white_noise(grid2d, 1)
        via_integral = pam_area_by_time_integral(xi)
        direct = resonant(pam_theta(xi), xi, part2d) \
            - pam_c_eps(1.0, DIRAC_MOLLIFIER, grid2d)
        scale = max(direct.sup_norm(), 1.0)
        assert (via_integral - direct).sup_norm() / scale < 2e-3


class TestBurgersArea:
    def test_diagonal_leibniz_identity(self):
        # band-limit the path so products stay below the lattice Nyquist,
        # making the identity exact rather than approximate
        grid = TorusGrid(1, 128)
        part = default_partition(grid)
        band = grid.k_abs() <= 30
        raw = burgers_theta_path(grid, 0.9, 0.25, 4, 1, 3)
        path = raw.map(lambda f: SpectralField(grid, f.coeffs * band))
        area = burgers_area(path, part)
        for n in (1, 4):
            th = path[n].channel(0)
            lhs = area[n].channel(0)
            rhs = derivative(resonant(th, th, part), 0) * 0.5
            assert (lhs - rhs).sup_norm() < 1e-10

    @pytest.mark.parametrize("channels", [1, 2])
    def test_chunked_area_equals_a_per_node_loop(self, channels):
        # 21 nodes: a chunk of 16 and a short one; each pair of each node is
        # a channel of one resonant call, transformed on its own
        grid = TorusGrid(1, 64)
        part = default_partition(grid)
        path = burgers_theta_path(grid, 0.9, 0.25, 20, channels, 8)
        area = burgers_area(path, part)
        for n, th in enumerate(path.fields):
            dth = derivative(th, 0)
            want = [resonant(th.channel(k), dth.channel(l), part).coeffs[0]
                    for k in range(channels) for l in range(channels)]
            assert area[n].coeffs.tobytes() == np.stack(want).tobytes()
            assert pair_resonant(th, dth, part).coeffs.tobytes() == area[n].coeffs.tobytes()

    def test_matrix_layout_of_pair_resonant(self, grid1d, part1d):
        a = rough_field(grid1d, 0.5, 4, channels=2)
        b = rough_field(grid1d, -0.5, 5, channels=2)
        out = pair_resonant(a, b, part1d)
        assert out.channels == 4
        ref = resonant(a.channel(0), b.channel(1), part1d)
        assert (out.channel(1) - ref).sup_norm() < 1e-14

    def test_sym_antisym_split_roundtrip(self, grid1d, part1d):
        eta = rough_field(grid1d, 0.1, 6, channels=4)
        s, a = sym_antisym_split(eta)
        assert (s + a - eta).sup_norm() < 1e-14
        s2, _ = sym_antisym_split(s)
        assert (s2 - s).sup_norm() < 1e-14

    def test_split_needs_square_channel_count(self, grid1d):
        with pytest.raises(ValueError):
            sym_antisym_split(rough_field(grid1d, 0.1, 7, channels=3))


class TestRdeEnhancement:
    def _driver(self, seed=8):
        grid = TorusGrid(1, 256, 4 * TWO_PI)
        ts, xs = sample_line_path(grid, 0.75, seed)
        return rde_driver(ts, xs, grid), default_partition(grid)

    def test_translation_by_zero_is_identity(self):
        drv, part = self._driver()
        E = EnhancedNoise("rde", drv.xi, drv.theta,
                          rde_area(drv.theta, drv.xi, part))
        z = SpectralField.zero(drv.xi.grid)
        T = enhanced_translate(E, z, z)
        assert (T.xi - E.xi).sup_norm() < 1e-13
        assert (T.theta - E.theta).sup_norm() < 1e-13
        assert (T.eta - E.eta).sup_norm() < 1e-13

    def test_translated_area_is_the_area_of_the_translated_driver(self):
        drv, part = self._driver()
        grid = drv.xi.grid
        E = EnhancedNoise("rde", drv.xi, drv.theta,
                          rde_area(drv.theta, drv.xi, part))
        f = derivative(SpectralField.from_function(
            grid, lambda x: 0.2 * np.sin(4 * x * (TWO_PI / grid.period))), 0)
        T = enhanced_translate(E, f, SpectralField.zero(grid))
        Phi = antiderivative(f)
        direct = rde_area(drv.theta + Phi, drv.xi + f, part)
        assert (T.eta - direct).sup_norm() < 1e-11

    def test_translation_rejects_other_kinds(self, grid2d):
        xi = spatial_white_noise(grid2d, 9)
        E = EnhancedNoise("pam", xi, pam_theta(xi), xi)
        with pytest.raises(ValueError):
            enhanced_translate(E, xi, xi)


class TestRoughArea:
    def test_formula_matches_quadrature_for_smooth_pair(self, grid1d, part1d):
        u = SpectralField.from_function(grid1d, lambda x: np.cos(2 * x) + 0.3 * np.sin(5 * x))
        v = SpectralField.from_function(grid1d, lambda x: np.sin(3 * x))
        eta = resonant(u, derivative(v, 0), part1d)
        a, b = rough_area_check(u, v, eta, 0.4, 2.1)
        assert abs(a[0] - b[0]) < 1e-9

    def test_self_area_is_half_square_increment(self, grid1d, part1d):
        v = SpectralField.from_function(grid1d, lambda x: np.sin(3 * x) + 0.1 * np.cos(7 * x))
        eta = resonant(v, derivative(v, 0), part1d)
        s, t = 0.2, 1.7
        a, _ = rough_area_check(v, v, eta, s, t)
        vv = v.eval_at(np.array([s, t]))[0]
        assert a[0] == pytest.approx(0.5 * (vv[1] - vv[0]) ** 2, abs=1e-10)


def test_enhanced_noise_rejects_unknown_kind(grid2d):
    xi = spatial_white_noise(grid2d, 10)
    with pytest.raises(ValueError):
        EnhancedNoise("kpz", xi, xi, xi)
